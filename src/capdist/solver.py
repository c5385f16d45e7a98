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

and w(x) = a(x) - t(x) - mu*c(x), J = sum_x P_X(x) w(x), and the plain
update exponent is g(x) = log2 P_X(x) + w(x) - lambda*b(x).  The solver
takes the over-relaxed step g(x) = log2 P_X(x) + theta*w(x) - lambda*b(x)
with theta = _THETA = 2 (the natural-gradient step of Matz and Duhamel, ITW
2004), which about halves the passes; a row whose relaxed step lowers J
falls back to the plain step (theta = 1) for good.

Every row stops on a certificate.  a(x) - t(x) is the divergence
D(P(.|x,s) || P(.|s) | P_S), so for any lambda >= 0 Blahut's bound (IEEE
T-IT 1972, conditioned on S) caps the optimum over the feasible pmfs:

    max J  <=  min_{lambda >= 0} [lambda*B + max_x (w(x) - lambda*b(x))]

The bound minus J is the duality gap; it is certified only at a pmf that
meets the budget as summed, and it is minimized over lambda exactly (see
`_gaps`).  Where BA crawls (an optimum on or near a face of the simplex,
where it converges sublinearly), trust-region Newton steps on the KKT
system of J finish the row: `_polish` runs at passes 4, 8, 16, ... and
keeps a pmf only when it carries its own certificate; no step moves any
ln p(x) by more than the row's radius.  `converged` means gap <=
convergence_eps, and `iterations` counts BA passes (a polish is part of
the pass it runs in).

`_BaWork` holds one (X, S, Y) law and state pmf.  Its `rates` evaluates
I(X;Y|S) = sum_x P_X(x) a(x) - sum_{s,y} P_S(s) P(y|s) log2 P(y|s) for every
row of a pmf matrix, clamped at 0; it is the library's one I(X;Y|S) code
outside `verify`: the reported rates and every broadcast-region rate in
`bcregions` (through the chain rule for the auxiliary-variable bounds) come
from it.  A spec that (x, s) -> (X-1-x, S-1-s) leaves unchanged is solved on
half its states (`_work`), with symmetric pmfs: BA keeps them, `_polish` projects.

One kernel, `_solve_rows`, iterates all penalties of a sweep at once: their
pmfs are the rows of an (M, X) matrix, each starts from the uniform pmf and
leaves the active set once its gap is certified.  Every `_BaWork` kernel
takes P(y|s) from `_pys`, in row blocks of at most `_BLOCK_ELEMENTS` //
columns rows over all kept law columns (the reached (s, y)) or one
curvature block of them, and a(x) is taken over law rows in blocks of the
same size.  Every product and sum is taken row by row, a(x) and the
entropy term of `rates` as NumPy's pairwise sum along the row, so no bit
depends on the block size or on the BLAS thread count: a sweep point does
not depend on the other mu of the grid.  No (rows, columns) temporary
exceeds 2**16 elements (512 KiB), unless one row has more columns.
There are no warm starts.  Where the budget binds, `_dual_rows` solves
E_lambda[b] = B for lambda by safeguarded Newton steps on all rows at once,
each row starting from its lambda of the previous pass, and returns
feasible pmfs.  Each `_solve_rows` call logs one debug record (rows,
passes, dual evaluations, polish attempts and acceptances, wall time) to
the "capdist" logger, which is silent unless the application configures it.

`no_tradeoff_check` decides the paper's sufficient no-tradeoff condition
from the channel alone, at psi*, the class of the posterior P(s|x,z): it
passes exactly when some map T = psi(X,Z) does.
"""

from __future__ import annotations

import collections
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import channel, estimator
from .errors import DegenerateUpdate, Infeasible

_BLOCK_ELEMENTS = 2 ** 16   # cap on the elements of every (rows, columns) temporary of
                            # `_BaWork`'s row blocks, 512 KiB: a few of them fit a 2 MiB
                            # L2 cache, and a row's result does not depend on its block
_CURVATURE_COLUMNS = 2 ** 13  # law columns per product of `_BaWork.curvature`
_LAMBDA_STEP = 1.0          # first scaled lambda of a newly binding row, and the least doubled one
_LN2 = np.log(2.0)
_EPS = np.finfo(float).eps
_MAX_DUAL_ROUNDS = 4096     # cap on lambda evaluations of one dual solve.  Until a
                            # row finds a feasible lambda, each step doubles lambda
                            # (<= 1,024 times before overflow) or follows a step that
                            # quartered E[b] - budget (<= ~1,050 times in the float
                            # range), so a row still without one is infeasible
_THETA = 2.0                # over-relaxation of the input update (1 = plain BA)
_POLISH_FIRST = 4           # first pass that polishes; then every doubled pass
_POLISH_STEPS = 6           # Newton steps of one polish
_RADIUS = 2.0               # first trust region of a polish: |ln p'(x) - ln p(x)| <= 2
_RIDGE = 1e-9               # relative ridge on the curvature diagonal of a Newton step
_LOG2_FLOOR = -600.0        # log2 of the least mass a Newton step starts from or leaves
_CHECK_TOL = 1e-9           # deviation the exact no-tradeoff and degradedness checks pass
_POSTERIOR_TOL = 1e-9       # L1 distance within which two posteriors P(s|x,z) are one class of psi*


def _xlog2x(p):
    out = np.where(p > 0, p, 1.0)           # log2 1 = 0: p log2 p is 0 where p <= 0
    np.log2(out, out=out)
    out *= p
    return out


def _row_blocks(n, columns, elements):
    """Consecutive slices of range(n) of at most elements // columns rows
    (at least one)."""
    step = max(1, elements // columns)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def conditional_mutual_information(spec, p_x):
    """I(X;Y|S) in bits for the given input pmf, from the law rows of the
    inputs with mass: the others add nothing to it."""
    p_x = channel._check_pmf(p_x, spec.input_size, "p_x")
    support = np.flatnonzero(p_x > 0)
    law = np.stack([spec.law_y[x] for x in support])
    return float(_BaWork(law, spec.state_pmf).rates(p_x[None, support])[0])


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
    convergence_eps: float = 1e-10     # bits: the largest certified duality gap
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
    gap: float                         # bits: Blahut's bound minus J, exact to
                                       # rounding, floored at 0 (inf: no bound)
    objective_trace: Optional[list] = field(default=None, repr=False)


class _BaWork:
    """Precomputed tensors of one (X, S, Y) law and state pmf: the BA kernel,
    its curvature, and I(X;Y|S) at every row of a pmf matrix.

    Only the (s, y) columns that some input reaches are kept, in order, as
    the (X, reached) `law_flat` and its P_S weights `ps_rep`: a column where
    every P(y|x,s) is 0 adds exactly 0 to every kernel.  The law (a dense
    array or a BandedLaw) is read one input's rows, s < len(state_pmf), at a
    time; a whole dense law whose every column is reached is used as it is."""

    def __init__(self, law, state_pmf):
        nx, ns, ny = law.shape[0], state_pmf.size, law.shape[2]
        reached = np.zeros(ns * ny, dtype=bool)
        for x in range(nx):
            reached |= law[x][:ns].reshape(-1) > 0
        self.ps_rep = np.repeat(state_pmf, ny)
        if isinstance(law, np.ndarray) and ns == law.shape[1] and reached.all():
            self.law_flat = np.ascontiguousarray(law.reshape(nx, -1))
        else:
            self.law_flat = np.empty((nx, np.count_nonzero(reached)))
            for x in range(nx):
                self.law_flat[x] = law[x][:ns].reshape(-1)[reached]
            self.ps_rep = self.ps_rep[reached]
        self.a = np.empty(nx)
        for rows in _row_blocks(nx, self.law_flat.shape[1], _BLOCK_ELEMENTS):
            self.a[rows] = (_xlog2x(self.law_flat[rows]) * self.ps_rep).sum(axis=1)

    def _pys(self, p, cols=slice(None)):
        """(rows, P(y|s) over law columns `cols`, shaped (rows, 1, columns))
        for consecutive row blocks of p of at most _BLOCK_ELEMENTS // columns
        rows; each row's product is its own, so its block changes no bit."""
        law = self.law_flat[:, cols]
        for rows in _row_blocks(p.shape[0], law.shape[1], _BLOCK_ELEMENTS):
            yield rows, p[rows, None, :] @ law

    def per_x(self, p):
        """a(x) - t(x) for every row of p; P_S is folded into log2 P(y|s)."""
        out = np.empty_like(p)
        for rows, pys in self._pys(p):
            log_pys = np.where(pys > 0, pys, 1.0)            # log2 taken as 0 where P(y|s) = 0
            np.log2(log_pys, out=log_pys)
            log_pys *= self.ps_rep
            out[rows] = self.a - (log_pys @ self.law_flat.T)[:, 0]
        return out

    def unreached(self, p):
        """Inputs whose law puts mass where P(y|s) = 0, for every row of p:
        there a(x) - t(x), whose log2 P(y|s) `per_x` takes as 0, is +inf.
        Only an input with no mass can be one."""
        out = np.empty(p.shape, dtype=bool)
        for rows, pys in self._pys(p):
            out[rows] = ((pys == 0.0).astype(float) @ self.law_flat.T)[:, 0] > 0.0
        return out

    def curvature(self, p):
        """(M, own) for every row of p: M, an (X, X) matrix per row, is
        sum_{s,y} P_S(s) P(y|x,s) P(y|x',s) / (P(y|s) ln 2), minus the Hessian
        of I(X;Y|S) in the pmf, and own(x) is the part of M(x, x) weighted
        by x's share p(x) P(y|x,s) / P(y|s) of each output.  Each is a sum
        over fixed blocks of _CURVATURE_COLUMNS law columns, each with its
        own P(y|s), taken in order, so a row's values depend neither on its
        row block nor on the other rows.  Every mass of p must be at least
        2**_LOG2_FLOOR: where P(y|s) is subnormal, 1/P(y|s) overflows and M
        is not finite."""
        law = self.law_flat
        nx, ncol = law.shape
        width = min(ncol, _CURVATURE_COLUMNS)
        m, own = np.zeros((p.shape[0], nx, nx)), np.zeros(p.shape)
        for lo in range(0, ncol, width):
            block, ps = law[:, lo:lo + width], self.ps_rep[lo:lo + width] / _LN2
            for rows, pys in self._pys(p, slice(lo, lo + width)):   # (rows, 1, width)
                inv = np.zeros_like(pys)
                np.divide(1.0, pys, out=inv, where=pys > 0)
                v, pr = inv * ps, p[rows, :, None]
                # one row of M at a time: a (1, width) @ (width, X) product,
                # the shape `per_x` takes, where a matrix product would page
                # in another BLAS kernel (~0.3 MB of peak RSS)
                for x in range(nx):
                    u = block[x] * v
                    m[rows, x] += (u @ block.T)[:, 0]
                    # x's share of each output, <= 1: no overflow at tiny masses
                    share = block[x] * (inv * pr[:, x:x + 1])
                    own[rows, x] += (u * block[x] * share)[:, 0].sum(axis=1)
        return m, own

    def rates(self, p):
        """I(X;Y|S) = sum_x p(x) a(x) - sum_{s,y} P_S(s) P(y|s) log2 P(y|s) at
        every row of p, clamped at 0 (the difference of two rounded sums can
        fall an ulp below it)."""
        out = (p[:, None, :] @ self.a)[:, 0]
        for rows, pys in self._pys(p):
            h = _xlog2x(pys)[:, 0]
            h *= self.ps_rep
            out[rows] -= h.sum(axis=1)
        return np.maximum(out, 0.0)


class _MirrorWork:
    """`_BaWork`'s kernels for a mirror-symmetric law (`_work`) from its states
    s < S/2 (an odd S's middle one at half mass): state S-1-s at p is state s at
    p reversed, inputs reversed, so each adds the half at p and at p reversed."""

    def __init__(self, law, state_pmf):
        ps = state_pmf[:(state_pmf.size + 1) // 2].copy()
        ps[-1] /= 1.0 + state_pmf.size % 2          # the middle state is its own image
        self.half = _BaWork(law, ps)

    def _pair(self, kernel, p):
        here, q = kernel(p), p[:, ::-1]
        return here, here if np.array_equal(p, q) else kernel(np.ascontiguousarray(q))

    def per_x(self, p):
        here, there = self._pair(self.half.per_x, p)
        return here + there[:, ::-1]

    def unreached(self, p):
        here, there = self._pair(self.half.unreached, p)
        return here | there[:, ::-1]

    def curvature(self, p):
        (m, own), (m_there, own_there) = self._pair(self.half.curvature, p)
        return m + m_there[:, ::-1, ::-1], own + own_there[:, ::-1]

    def rates(self, p):
        return np.add(*self._pair(self.half.rates, p))


def _work(spec):
    """The spec's estimator, kernels and c(x) to iterate with.  Where (x, s) ->
    (X-1-x, S-1-s) leaves the laws (a banded law's offsets and window indices),
    state pmf, cost and distortion (or each quadratic grid negated) unchanged,
    bit for bit, J_mu is mirror-invariant and concave, so some optimal pmf is
    symmetric: `_MirrorWork`, c made symmetric."""
    est, d = estimator.build_estimator(spec), spec.distortion
    grids = [d.state_values, d.estimate_values] if isinstance(d, channel.QuadraticDistortion) else []
    same = [spec.state_pmf, spec.cost] + ([] if grids else [d]) + [
        a for law in (spec.law_y, spec.law_z)
        for a in ((law.offset, law.index) if isinstance(law, channel.BandedLaw) else (law,))]
    if (all(np.array_equal(a, np.flip(a, (0, 1)[:a.ndim])) for a in same)
            and all(np.array_equal(g, -g[::-1]) for g in grids)):
        return est, _MirrorWork(spec.law_y, spec.state_pmf), 0.5 * (est.cost + est.cost[::-1])
    return est, _BaWork(spec.law_y, spec.state_pmf), est.cost


def _gaps(work, p, w, j, b, budget):
    """Blahut's duality gap at every row of p, whose w = a - t - mu*c and
    J = sum p*w are given: min over lambda >= 0 of lambda*B + max_x (w(x) -
    lambda*b(x)), less J, exact to rounding, floored at 0 (the bound sums J's
    terms in another order); inf at a row whose E[b], as summed, exceeds B.

    By LP duality the bound is the budget LP of w (`estimator._budget_lp`),
    the largest mean of w over the pmfs that meet the budget, which stays
    exact where a bound in lambda would not: an input with no mass whose
    law reaches outputs that no input reaches has w(x) = +inf, and so has
    the bound, unless no pmf can put mass on it.
    """
    holes = (p == 0.0).any(axis=1)
    if holes.any():
        w = w.copy()
        w[holes] = np.where(work.unreached(p[holes]), np.inf, w[holes])
    upper = estimator._budget_lp(w, b, budget)[0]
    ok = (p * b).sum(axis=1) <= budget
    return np.where(ok, np.maximum(upper - j, 0.0), np.inf)


def _dual_rows(base_g, b, budget, lam0):
    """Input update under the cost constraint, per row: (pmfs, lambdas, evals).

    Rows with E[b] <= budget get lambda = 0 and the plain update.  For the
    others the pmf p_lambda ~ 2**(g - lambda*b) is tuned so that E_lambda[b],
    decreasing in lambda with dE/dlambda = -ln2 Var_lambda[b], meets the
    budget, by Newton steps on all binding rows at once.  Each row solves for
    its scaled lambda x = lambda * scale, where scale is the gap between its
    least cost on the support and its least cost above the budget, and takes
    its pmf ~ 2**(g - x*(b - least)/scale): x stays a finite double however
    close the two costs are.  (A row with no support cost above the budget
    keeps least = 0 and scale = 1.)  The lambdas in and out are these
    scaled ones.
    A row starts at its lam0, or at _LAMBDA_STEP if lam0 is 0, and brackets
    the root between its last infeasible x lo and its last feasible one hi.
    While hi is infinite a row doubles (to at least _LAMBDA_STEP) in place
    of a Newton iterate that does not exceed lo or would more than double,
    and after a step that failed to quarter the excess E[b] - budget; once
    hi is finite, bisection replaces a Newton iterate outside (lo, hi).
    Newton aims at the middle of the stopping window, so it comes to rest
    inside it: a row stops once a feasible iterate leaves slack budget -
    E[b] <= tol = 4 eps budget (relative, as the rounding of E[b], a sum of
    nonnegative terms, is), or once hi - lo <= 4 spacing(hi), and returns hi
    with its pmf, so (p * b).sum(axis=1) <= budget holds as summed here.  A
    row's result depends on that row alone.  `evals` counts the batched
    evaluations of the lambda loop.
    """
    p = _pmfs(base_g)
    lam = np.zeros(len(p))
    bind = (p * b).sum(axis=1) > budget
    if not bind.any():
        return p, lam, 0
    tol = 4.0 * _EPS * budget
    target = budget - 0.5 * tol
    act = np.flatnonzero(bind)
    g, x = base_g[act], np.where(lam0[act] > 0, lam0[act], _LAMBDA_STEP)
    cost = np.where(np.isfinite(g), b, np.inf)              # b on each row's support
    least = cost.min(axis=1)
    if np.any(least > budget):
        raise Infeasible("cost budget unattainable on the current support")
    above = np.where(cost > budget, cost, np.inf).min(axis=1)
    # a row with no support cost above B exceeds it by rounding only: it
    # keeps lambda itself (least 0, scale 1), which does reach a pmf that
    # meets B as summed, once lambda*b swamps the exponents' differences
    least = np.where(above < np.inf, least, 0.0)
    scale = np.where(above < np.inf, above - least, 1.0)
    u = (cost - least[:, None]) / scale[:, None]
    lo, hi, excess = np.zeros(act.size), np.full(act.size, np.inf), np.full(act.size, np.inf)
    for evals in range(1, _MAX_DUAL_ROUNDS + 1):
        q = _pmfs(g - x[:, None] * u)
        e = (q * b).sum(axis=1)
        ok = e <= budget
        if ok.any():
            p[act[ok]], lam[act[ok]] = q[ok], x[ok]
        lo, hi = np.where(ok, lo, x), np.where(ok, x, hi)
        keep = ~((ok & (budget - e <= tol)) | (hi - lo <= 4.0 * np.spacing(hi)))
        if not keep.all():
            if not keep.any():
                return p, lam, evals
            act, g, u, scale, q, e, ok, x, lo, hi, excess = (
                v[keep] for v in (act, g, u, scale, q, e, ok, x, lo, hi, excess))
        slow = ~ok & (e - budget > 0.25 * excess)
        excess = np.where(ok, excess, e - budget)
        dev = b - e[:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x + scale * (e - target) / (_LN2 * (q * dev * dev).sum(axis=1))
            double = np.maximum(2.0 * lo, _LAMBDA_STEP)
        x = np.where(np.isfinite(hi),
                     np.where((newton > lo) & (newton < hi), newton, lo + 0.5 * (hi - lo)),
                     np.where((newton > lo) & (newton < double) & ~slow, newton, double))
        if not np.isfinite(x).all():                # doubled past the largest float
            raise Infeasible("cost budget unattainable in floating point")
    if not np.isfinite(hi).all():
        raise Infeasible("cost budget unattainable in floating point")
    return p, lam, evals


def _kkt_step(m, grad, p, held, free, bind, b, slack):
    """The step d of `_newton_step`'s model on the free inputs of each row
    (0 on the held ones, which move from p to `held`), with the budget row
    on the rows in `bind`: one LAPACK call solves every row's KKT system.  A
    `_singular` or non-finite row is set aside with a NaN step first, so no
    row changes another's."""
    n, nx = p.shape
    diag = np.arange(nx)
    scale = b.max() if b.max() > 0.0 else 1.0
    kkt = np.zeros((n, nx + 2, nx + 2))
    kkt[:, :nx, :nx] = np.where(free[:, :, None] & free[:, None, :], m, 0.0)
    kkt[:, diag, diag] = np.where(free, m[:, diag, diag] * (1.0 + _RIDGE), 1.0)
    kkt[:, nx, :nx] = kkt[:, :nx, nx] = free
    kkt[:, nx + 1, :nx] = kkt[:, :nx, nx + 1] = np.where(bind[:, None] & free, b / scale, 0.0)
    kkt[:, nx + 1, nx + 1] = np.where(bind, 0.0, 1.0)
    shift = held - p
    rhs = np.zeros((n, nx + 2, 1))
    rhs[:, :nx, 0] = np.where(free, grad - (shift[:, None, :] @ m)[:, 0], 0.0)
    rhs[:, nx, 0] = -shift.sum(axis=1)
    rhs[:, nx + 1, 0] = np.where(bind, (slack - (shift * b).sum(axis=1)) / scale, 0.0)
    fine = (~_singular(free, bind, b) & np.isfinite(kkt).all(axis=(1, 2))
            & np.isfinite(rhs).all(axis=(1, 2)))
    d = np.full((n, nx), np.nan)
    d[fine] = np.linalg.solve(kkt[fine], rhs[fine])[:, :nx, 0]
    return d


def _singular(free, bind, b):
    """Rows with no free input, or binding with free inputs that all cost
    the same: their budget row is a multiple of their sum row."""
    spread = np.where(free, b, -np.inf).max(axis=1) > np.where(free, b, np.inf).min(axis=1)
    return ~np.where(bind, spread, free.any(axis=1))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton_step(m, own, p, w, b, budget, radius):
    """One Newton step from each row of p, whose w = a - t - mu*c and
    `_BaWork.curvature` (M, own) are given, in the trust region of radius r:
    the stepped pmfs, not yet renormalized.  The step maximizes the model
    w.d - d.M.d/2 of J (M's diagonal raised by _RIDGE: M is singular where
    the optimum is not unique) subject to sum d = 0, b.d <= B - b.p and
    exp(-r) p <= p + d <= exp(r) p, by a primal active-set search, one
    `_kkt_step` per round: the first bound along the step, the budget or an
    input's edge, becomes active (b.d = B - b.p, or the input held at its
    edge).  Where that would leave a `_singular` system, the row drops its
    budget row if the held inputs already meet the budget, and else keeps
    its last step, clipped.  An input that dominates its outputs, by half
    of M(x, x) or more, grows by p * exp(min(d/p, r)): there J is like
    -p ln p, whose step in ln p is exact, while p + d would barely move a
    tiny mass.  No mass ends below 2**_LOG2_FLOOR (`_BaWork.curvature`)."""
    grad = w - (p * w).sum(axis=1, keepdims=True)
    # aim at the middle of the dual's stopping window, as `_dual_rows` does
    slack = budget * (1.0 - 2.0 * _EPS) - (p * b).sum(axis=1)
    lo, hi = np.expm1(-radius)[:, None] * p, np.expm1(radius)[:, None] * p
    free, held, bind = np.ones(p.shape, dtype=bool), p, np.zeros(len(p), dtype=bool)
    d = _kkt_step(m, grad, p, held, free, bind, b, slack)
    for _ in range(p.shape[1] + 1):
        reach = np.where(free & (d < lo), lo / d, np.where(free & (d > hi), hi / d, np.inf))
        first = reach.min(axis=1)
        room = budget - (np.where(free, p, held) * b).sum(axis=1)
        used = (np.where(free, d, 0.0) * b).sum(axis=1)
        spend = ~bind & (used > room) & (room < used * first)
        cross = np.isfinite(reach) & (reach == first[:, None]) & ~spend[:, None]
        if not (cross.any() or spend.any()):
            break
        left = free & ~cross
        stuck = _singular(left, bind | spend, b)
        if stuck.any():         # E[b] once the free inputs, all at one cost, take the rest
            kept = np.where(cross, p + np.clip(d, lo, hi), np.where(free, 0.0, held))
            cost = np.where(left, b, -np.inf).max(axis=1)
            meets = left.any(axis=1) & (
                (kept * b).sum(axis=1) + (1.0 - kept.sum(axis=1)) * cost <= budget)
            cross &= (meets | ~stuck)[:, None]
            spend, bind = spend & ~stuck, bind & ~(stuck & meets)
        held, free, bind = np.where(cross, p + np.clip(d, lo, hi), held), free & ~cross, bind | spend
        d = _kkt_step(m, grad, p, held, free, bind, b, slack)
    grown = np.where((d > 0.0) & (2.0 * own >= np.diagonal(m, axis1=1, axis2=2)),
                     p * np.exp(np.minimum(d / p, radius[:, None])), p + np.clip(d, lo, hi))
    return np.maximum(np.where(free, grown, held), 2.0 ** _LOG2_FLOOR)


def _polish(work, cost, p, w, j, mu, b, budget, tol):
    """Up to _POLISH_STEPS trust-region Newton steps (`_newton_step`) from each
    row of p, whose w = a - t - mu*c and J are given, each renormalized and
    made to meet the budget by `_dual_rows`: (pmfs, J, gaps, accepted).  Masses
    below 2**_LOG2_FLOOR (BA can underflow one to 0, which no step moves) are
    first raised to it.  The radius starts at _RADIUS.  A step to a gap <= tol
    is accepted; one to a finite gap and a J no lower (to the rounding of a sum
    of p*w) is taken and quadruples the radius; any other is rejected and
    quarters it.  Rows not accepted come back unchanged."""
    out_p, out_j, out_gap = p.copy(), j.copy(), np.full(len(p), np.inf)
    q, w, j = np.maximum(p, 2.0 ** _LOG2_FLOOR), w.copy(), j.copy()
    low = (p < 2.0 ** _LOG2_FLOOR).any(axis=1)
    if low.any():
        w[low] = work.per_x(q[low]) - mu[low] * cost
        j[low] = (q[low] * w[low]).sum(axis=1)
    live, radius, up = np.arange(len(p)), np.full(len(p), _RADIUS), np.ones(len(p), dtype=bool)
    m, own = np.empty(p.shape + p.shape[1:]), np.empty(p.shape)
    for _ in range(_POLISH_STEPS):
        if up.any():                        # the curvature where the row moved
            m[up], own[up] = work.curvature(q[up])
        s = _newton_step(m, own, q, w, b, budget, radius)
        if isinstance(work, _MirrorWork):   # BA's passes keep the symmetry; LAPACK need not
            s = 0.5 * (s + s[:, ::-1])
        fine = np.isfinite(s).all(axis=1)
        s[~fine] = 1.0 / s.shape[1]         # placeholders, so the batch stays whole
        # a stepped pmf misses the budget by rounding only: start lambda small
        s = _dual_rows(np.log2(s), b, budget, np.full(len(s), _EPS))[0]
        ws = work.per_x(s) - mu[live] * cost
        js = (s * ws).sum(axis=1)
        gs = np.where(fine, _gaps(work, s, ws, js, b, budget), np.inf)
        good, up = gs <= tol, np.isfinite(gs) & (js >= j - 16.0 * _EPS * np.abs(ws).max(axis=1))
        done = live[good]
        out_p[done], out_j[done], out_gap[done] = s[good], js[good], gs[good]
        if good.all():
            break
        if good.any():
            live, s, ws, js, q, w, j, radius, m, own, up = (
                v[~good] for v in (live, s, ws, js, q, w, j, radius, m, own, up))
        q[up], w[up], j[up] = s[up], ws[up], js[up]
        radius = np.where(up, 4.0 * radius, 0.25 * radius)
    return out_p, out_j, out_gap, out_gap <= tol


def _solve_rows(work, cost, b, mus, budget, cfg, start=None):
    """One TradeoffPoint per penalty in `mus` (each finite and >= 0), all
    iterated in lockstep; c(x) is `cost`, b the input costs the budget bounds.

    Row i starts at `start` (a pmf, or one per row; uniform if None).  Each
    pass evaluates w = a - t - mu*c and J at every active row's pmf and the
    row's duality gap (`_gaps`); a row whose gap is at most convergence_eps
    (bits) stops there, certified.  At passes 4, 8, 16, ... (_POLISH_FIRST
    and its doublings) every other active row tries the trust-region
    `_polish`, and stops with its pmf if that is accepted.  The rest take the
    over-relaxed step p * 2**(theta*w - lambda*b), theta = _THETA.  A row
    whose relaxed step lowered J returns to its last accepted pmf, steps
    plainly (theta = 1) from the w it holds for that pmf, and stays at
    theta = 1; a plain step is always accepted, since under a binding budget
    it can lower J by rounding.  A row still uncertified after
    max_outer_iters passes reports the gap of its last pmf; `converged` is
    gap <= convergence_eps.  `iterations` counts passes, rejected ones
    included, and `objective_trace` holds J at the accepted passes and at an
    accepted polish.  The call logs its rows, batched passes, dual
    evaluations, polish attempts and acceptances, and wall time at DEBUG
    level on the "capdist" logger.
    """
    started = time.perf_counter()
    b = np.asarray(b, float)
    estimator._check_budget(b, budget)
    mus = np.asarray(mus, float)
    bad = mus[~(np.isfinite(mus) & (mus >= 0.0))]
    if bad.size:
        raise ValueError(f"mu must be a finite number >= 0, not {float(bad[0])}")
    m, nx = mus.size, b.size
    p = np.array(np.broadcast_to(np.full(nx, 1.0 / nx) if start is None
                                 else np.asarray(start, float), (m, nx)), order="C")
    tol = cfg.convergence_eps
    iters, gaps = np.full(m, cfg.max_outer_iters), np.full(m, np.inf)
    traces = [[] for _ in range(m)] if cfg.record_objective else None
    # state of the active rows, compacted whenever rows leave; the accepted
    # pmf, its w and its J are those of the previous pass
    act, pa, mu, lam = np.arange(m), p.copy(), mus[:, None], np.zeros(m)
    theta = np.full((m, 1), _THETA)
    relaxed = theta[:, 0] > 1.0
    p_acc, w_acc, j_acc = pa, np.zeros_like(pa), np.full(m, -np.inf)
    evals = tries = polished = 0
    for k in range(1, cfg.max_outer_iters + 1):
        w = work.per_x(pa) - mu * cost
        j = (pa * w).sum(axis=1)
        back = (j < j_acc) & relaxed
        if back.any():
            theta[back], relaxed[back] = 1.0, False
            pa[back], w[back], j[back] = p_acc[back], w_acc[back], j_acc[back]
        if traces is not None:
            for i, v, bk in zip(act.tolist(), j.tolist(), back.tolist()):
                if not bk:
                    traces[i].append(v)
        gap = _gaps(work, pa, w, j, b, budget)
        done = gap <= tol
        if k >= _POLISH_FIRST and k & (k - 1) == 0 and not done.all():
            todo = np.flatnonzero(~done)
            pp, jp, gp, ok = _polish(work, cost, pa[todo], w[todo], j[todo],
                                     mu[todo], b, budget, tol)
            tries, polished = tries + todo.size, polished + int(ok.sum())
            rows = todo[ok]
            pa[rows], gap[rows], done[rows] = pp[ok], gp[ok], True
            if traces is not None:
                for i, v in zip(act[rows].tolist(), jp[ok].tolist()):
                    traces[i].append(v)
        if done.any():
            rows = act[done]
            p[rows], iters[rows], gaps[rows] = pa[done], k, gap[done]
            keep = ~done
            act, pa, w, j, p_acc, w_acc, j_acc, mu, lam, theta, relaxed = (
                v[keep] for v in (act, pa, w, j, p_acc, w_acc, j_acc, mu, lam,
                                  theta, relaxed))
            if act.size == 0:
                break
        with np.errstate(divide="ignore"):
            base_g = np.where(pa > 0, np.log2(pa) + theta * w, -np.inf)
        p_new, lam, n = _dual_rows(base_g, b, budget, lam)
        pa, p_acc, w_acc, j_acc, evals = p_new, pa, w, j, evals + n
    else:
        w = work.per_x(pa) - mu * cost
        p[act], gaps[act] = pa, _gaps(work, pa, w, (pa * w).sum(axis=1), b, budget)
    # E[b] summed as the dual search sums it, so a binding row reads <= budget;
    # E[c] as c_min plus a sum of nonnegative terms, so no row reads below
    # the least c(x) (the unconstrained mu = inf anchor) by rounding
    c_min = cost.min()
    rates, spent = work.rates(p), (p * b).sum(axis=1)
    dist = c_min + (p * (cost - c_min)).sum(axis=1)
    # a process that never imported logging configured no handler that could
    # show the record; importing it here would cost ~10 ms and 0.3 MB
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("capdist").debug(
            "solve: %d rows, %d passes, %d dual evaluations, %d polish attempts, "
            "%d accepted, %.4f s", m, iters.max(initial=0), evals, tries, polished,
            time.perf_counter() - started)
    return [TradeoffPoint(mu=float(mus[i]), budget=budget, rate=float(rates[i]),
                          distortion=float(dist[i]), cost=float(spent[i]),
                          input_pmf=p[i], iterations=int(iters[i]),
                          converged=bool(gaps[i] <= tol), gap=float(gaps[i]),
                          objective_trace=None if traces is None else traces[i])
            for i in range(m)]


def solve_fixed_mu(spec, config):
    """Run the alternating maximization for one penalty value."""
    _, work, cost = _work(spec)
    return _solve_rows(work, cost, spec.cost, [config.mu], config.budget, config)[0]


def _anchor(spec, work, est, budget):
    """The mu = inf point: D_min under the budget (`estimator.d_min`, at the
    estimator's own c, whose ties pick the pmf), with I(X;Y|S) and E[b] there."""
    dm_val, dm_pmf = estimator.d_min(spec, budget, est=est)
    return TradeoffPoint(
        mu=np.inf, budget=budget, rate=float(work.rates(dm_pmf[None])[0]),
        distortion=dm_val, cost=float(dm_pmf @ spec.cost),
        input_pmf=dm_pmf, iterations=0, converged=True, gap=0.0)


def sweep_frontier(spec, budget, mu_grid, threads=1):
    """One solve per mu, mu = 0 included, plus the mu = inf anchor
    (`_anchor`), sorted by distortion.

    All mu iterate from the uniform pmf in lockstep, in row blocks (see
    `_solve_rows`), under the default `BaConfig`; there are no warm starts.
    `threads` is accepted and ignored; it stays only because the benchmark
    harness (perfbench) still passes it.
    """
    est, work, cost = _work(spec)
    mus = sorted(float(m) for m in mu_grid)
    if not mus:
        raise ValueError("mu_grid must be nonempty")
    if mus[0] > 0.0:
        mus = [0.0] + mus
    points = [_anchor(spec, work, est, budget)]
    points += _solve_rows(work, cost, spec.cost, mus, budget, BaConfig())
    points.sort(key=lambda pt: (pt.distortion, -pt.rate, -pt.mu))
    return points


def baseline_ts(spec, budget=np.inf):
    """Basic and improved time-sharing baselines.

    Segments are ((rate, distortion), (rate, distortion)) endpoint pairs:
    basic connects the pure-sensing point (0, D_min) with the estimation-blind
    capacity point (C_NoEst, D_trivial); improved connects (R_min, D_min),
    the mu = inf anchor of `sweep_frontier`, with (C_NoEst, D_max).  C_NoEst
    is solved at mu = 0 under the default `BaConfig`, so its duality gap is
    certified to 1e-10 bits.
    """
    est, work, cost = _work(spec)
    low = _anchor(spec, work, est, budget)
    cap, = _solve_rows(work, cost, spec.cost, [0.0], budget, BaConfig())
    d_max = estimator.expected_distortion(est, cap.input_pmf)
    d_triv = estimator.d_trivial(spec)
    return {
        "d_min": low.distortion, "r_min": low.rate,
        "c_noest": cap.rate, "d_max": d_max, "d_trivial": d_triv,
        "basic": ((0.0, low.distortion), (cap.rate, d_triv)),
        "improved": ((low.rate, low.distortion), (cap.rate, d_max)),
        "capacity_pmf": cap.input_pmf, "dmin_pmf": low.input_pmf,
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


def _posterior_classes(spec):
    """psi*(x, z): the class of the posterior P(s|x,z), as an (X, Z) table
    whose labels are pair indices; P(s|x,z) = P_S(s) P(z|x,s) / P(z|x).

    Pairs are visited in the order of a key, their posterior's projection
    on a fixed vector in [0, 1]^S, and each joins the first class whose
    first posterior lies within _POSTERIOR_TOL of its own in L1 distance, or
    opens one.  Posteriors that close have keys within _POSTERIOR_TOL (plus
    rounding), so a pair meets only the classes opened within
    2 * _POSTERIOR_TOL of its key, and no (X, Z, S) array is built: P(z|x)
    and the keys are taken one input's (S, Z) rows at a time, and each
    posterior from one column of the law.  Each pair with P(z|x) = 0 is a
    class of its own.
    """
    nx, ns, nz = spec.law_z.shape
    ps = spec.state_pmf
    v = np.random.default_rng(0).random(ns)
    p_z, key = np.empty((nx, nz)), np.empty((nx, nz))
    for x in range(nx):
        rows = spec.law_z[x]
        p_z[x], key[x] = np.einsum("s,sz->z", ps, rows), np.einsum("s,sz->z", ps * v, rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        key = np.where(p_z > 0, key / p_z, np.inf).ravel()
    table = np.arange(nx * nz)
    opened = collections.deque()          # (key, first posterior, class) within reach
    for i in np.argsort(key, kind="stable")[:np.count_nonzero(p_z)]:
        x, z = divmod(int(i), nz)
        post = ps * spec.law_z[x, :, z] / p_z[x, z]
        while opened and opened[0][0] < key[i] - 2.0 * _POSTERIOR_TOL:
            opened.popleft()
        table[i] = next((t for _, first, t in opened
                         if np.abs(post - first).sum() <= _POSTERIOR_TOL), i)
        if table[i] == i:
            opened.append((key[i], post, i))
    return table.reshape(nx, nz)


def no_tradeoff_check(spec):
    """Decide the paper's sufficient no-tradeoff condition from the channel.

    The condition asks for a map T = psi(X,Z) with (i) (S,T) independent of
    X and (ii) S - T - (X,Z) a Markov chain; then the estimation cost is
    constant in P_X, so communication and sensing do not trade off.  It is
    tested, exactly, at psi* = `_posterior_classes`.  With
    W(x,s,t) = sum_{z: psi(x,z)=t} P_S(s) P(z|x,s), in which P_X cancels,
    (i) holds for every P_X iff W(x,.,.) is the same at every x, and given
    (i), (ii) holds iff P_S(s) P(z|x,s) W(t|x) = W(x,s,t) P(z|x) at
    t = psi(x,z).  The report holds the largest spread of W over x and the
    largest gap in (ii); a pass needs both at most _CHECK_TOL.

    Sound: a pass is an exact certificate for the psi* tested, however its
    pairs were grouped; a grouping that merges unequal posteriors can only
    cause a false FAIL.  Complete: under (ii), P(s|x,z) = P(s|T), so psi* is
    a function of any valid T.  (S, psi*) is then a function of (S, T), which
    (i) makes independent of X, so (i) holds for psi*; (ii) holds for psi*
    by construction.  So psi* passes whenever some psi does.

    W is built one input at a time.  Only the classes that every input
    reaches keep a running max and min of W over x; any other class has
    W = 0 at some input, so its spread is its largest W.
    """
    table = _posterior_classes(spec)
    nx, ns, _ = spec.law_z.shape
    reached = np.bincount(np.concatenate([np.unique(row) for row in table]),
                          minlength=table.size)
    shared = np.flatnonzero(reached == nx)             # classes every input reaches
    hi = np.full((shared.size, ns), -np.inf)
    lo = -hi
    worst1 = worst2 = 0.0
    for x in range(nx):
        w = spec.state_pmf[:, None] * spec.law_z[x]                   # (S, Z)
        labels, inv = np.unique(table[x], return_inverse=True)
        order = np.argsort(inv, kind="stable")
        w_t = np.add.reduceat(w[:, order], np.searchsorted(inv[order], np.arange(labels.size)),
                              axis=1).T                               # W(x, ., t)
        p_z = w.sum(axis=0)
        every = np.isin(labels, shared)
        c = np.searchsorted(shared, labels[every])
        hi[c] = np.maximum(hi[c], w_t[every])
        lo[c] = np.minimum(lo[c], w_t[every])
        worst1 = max(worst1, w_t[~every].max(initial=0.0))
        worst2 = max(worst2, np.abs(w * np.bincount(inv, weights=p_z)[inv]
                                    - w_t[inv].T * p_z).max())
    worst1, worst2 = float(max(worst1, (hi - lo).max(initial=0.0))), float(worst2)
    return NoTradeoffReport(worst1, worst2, _CHECK_TOL,
                            passed=max(worst1, worst2) <= _CHECK_TOL)
