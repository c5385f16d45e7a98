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
its products the same way.  There are no warm starts.  Where
the budget binds, `_dual_rows` searches lambda for all rows at once and
returns feasible pmfs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import channel, estimator
from .errors import DegenerateUpdate, Infeasible, SpecValidationError

_BLOCK_ELEMENTS = 2 ** 22   # cap on the elements of each (rows, S*Y) temporary
_DUAL_POINTS = 63           # interior lambdas per bracket and round of the dual search
_LAMBDA_STEP = 1.0          # seeds the lambda bracket: hi = max(lam, _LAMBDA_STEP)
_MAX_DUAL_ROUNDS = 100      # cap on rounds of the lambda search
_THETA = 2.0                # over-relaxation of the input update (1 = plain BA)


def _xlog2x(p):
    out = np.zeros_like(p)
    np.log2(p, out=out, where=p > 0)
    return p * out


def conditional_mutual_information(spec, p_x):
    """I(X;Y|S) in bits for the given input pmf."""
    work = _BaWork(channel.marginal_y_given_xs(spec), spec.state_pmf)
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
    """Input update under the cost constraint, per row: (pmfs, lambdas).

    Rows with E[b] <= budget get lambda = 0.  For the others
    the bracket [0, hi] starts at hi = max(lam0, _LAMBDA_STEP), doubles hi
    until E[b] <= budget, then keeps the sub-bracket where E[b] (monotone in
    lambda) crosses the budget among 63 interior points per round (at most
    _MAX_DUAL_ROUNDS), until no bracket has a point strictly inside; the
    feasible upper end is returned.
    """
    p = _pmfs(base_g)
    lam = np.zeros(len(p))
    bind = (p * b).sum(axis=1) > budget
    if not bind.any():
        return p, lam
    g = base_g[bind]

    def feasible(g, lams):                  # lams (rows, k) -> (rows, k)
        return (_pmfs(g[:, None, :] - lams[..., None] * b) * b).sum(axis=-1) <= budget

    hi = np.maximum(lam0[bind], _LAMBDA_STEP)
    over = ~feasible(g, hi[:, None])[:, 0]
    while over.any():
        hi[over] *= 2.0
        if hi.max() > 1e18:
            raise Infeasible("cost budget unattainable on the current support")
        over[over] = ~feasible(g[over], hi[over, None])[:, 0]
    lo = np.zeros_like(hi)
    frac = np.arange(1, _DUAL_POINTS + 1) / (_DUAL_POINTS + 1)
    rows = np.arange(hi.size)
    for _ in range(_MAX_DUAL_ROUNDS):
        grid = np.concatenate([lo[:, None], lo[:, None] + (hi - lo)[:, None] * frac,
                               hi[:, None]], axis=1)
        if not np.any((grid[:, 1:-1] > lo[:, None]) & (grid[:, 1:-1] < hi[:, None])):
            break
        ok = feasible(g, grid[:, 1:-1])
        first = np.where(ok.any(axis=1), ok.argmax(axis=1), _DUAL_POINTS) + 1
        lo, hi = grid[rows, first - 1], grid[rows, first]
    lam[bind] = hi
    p[bind] = _pmfs(g - hi[:, None] * b)
    return p, lam


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
    accepted passes only.
    """
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
            p_new, lam = _dual_rows(base_g, b, budget, lam)
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
    return [TradeoffPoint(mu=float(mus[i]), budget=budget, rate=float(rates[i]),
                          distortion=float(dist[i]), cost=float(cost[i]),
                          input_pmf=p[i], iterations=int(iters[i]),
                          converged=bool(converged[i]),
                          objective_trace=None if traces is None else traces[i])
            for i in range(m)]


def solve_fixed_mu(spec, config, est=None, work=None):
    """Run the alternating maximization for one penalty value."""
    est = estimator.build_estimator(spec) if est is None else est
    if work is None:
        work = _BaWork(channel.marginal_y_given_xs(spec), spec.state_pmf)
    return _solve_rows(work, est, spec.cost, [config.mu], config.budget, config)[0]


def sweep_frontier(spec, budget, mu_grid, base_config=None, threads=1):
    """One solve per mu plus the two analytic anchors, sorted by distortion.

    All mu iterate from the uniform pmf in lockstep, in row blocks (see
    `_solve_rows`); there are no warm starts.  `threads` is accepted and
    ignored; it stays only because the benchmark harness (perfbench) still
    passes it.
    """
    if base_config is None:
        base_config = BaConfig()
    est = estimator.build_estimator(spec)
    work = _BaWork(channel.marginal_y_given_xs(spec), spec.state_pmf)
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
    points += _solve_rows(work, est, spec.cost, mus, budget, base_config)
    points.sort(key=lambda pt: (pt.distortion, -pt.rate, -pt.mu))
    return points


def baseline_ts(spec, budget=np.inf, config=None):
    """Basic and improved time-sharing baselines.

    Segments are ((rate, distortion), (rate, distortion)) endpoint pairs:
    basic connects the pure-sensing point (0, D_min) with the estimation-blind
    capacity point (C_NoEst, D_trivial); improved connects (R_min, D_min)
    with (C_NoEst, D_max).
    """
    if config is None:
        config = BaConfig(convergence_eps=1e-15)
    est = estimator.build_estimator(spec)
    work = _BaWork(channel.marginal_y_given_xs(spec), spec.state_pmf)
    dm_val, dm_pmf = estimator.d_min(spec, budget, est=est)
    r_min = float(work.rates(dm_pmf[None])[0])
    cap = solve_fixed_mu(spec, replace(config, mu=0.0, budget=budget), est=est,
                         work=work)
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


def no_tradeoff_check(spec, psi, tol=1e-9):
    """Test the sufficient no-tradeoff conditions for T = psi(X,Z), exactly.

    Let W(x,s,t) = sum_{z: psi(x,z)=t} P_S(s) P(z|x,s); the input pmf cancels.
    (i) (S,T) is independent of X for every P_X iff W(x,.,.) is the same at
    every x; given (i), (ii) S - T - (X,Z) is a Markov chain iff
    P_S(s) P(z|x,s) W(t|x) = W(x,s,t) P(z|x) at t = psi(x,z).  The report
    holds the largest spread of W over x and the largest gap in (ii).  A pass
    certifies that the estimation cost is constant in P_X, i.e.
    communication and sensing do not trade off.
    """
    w = spec.state_pmf[None, :, None] * channel.marginal_z_given_xs(spec)  # (X, S, Z)
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
    return NoTradeoffReport(worst1, worst2, tol, passed=max(worst1, worst2) <= tol)
