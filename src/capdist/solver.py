"""Modified Blahut-Arimoto solver for the capacity-distortion-cost tradeoff.

For a penalty mu >= 0 the solver maximizes

    J_mu(P_X) = I(X;Y|S) - mu * sum_x P_X(x) c(x)

over input pmfs subject to the cost budget sum_x P_X(x) b(x) <= B, by
alternating the exact backward-channel update Q(x|y,s) with the exponential
input update, handling the budget through a dual variable lambda: when the
budget binds, a bracket on lambda is doubled until E[b] <= B and then
bisected, so the returned point is feasible.
Log base 2 throughout; rates in bits.

The per-iteration work is reduced algebraically: with

    a(x) = sum_{s,y} P_S(s) P(y|x,s) log2 P(y|x,s)
    t(x) = sum_{s,y} P_S(s) P(y|x,s) log2 P(y|s)        (depends on P_X)

the update exponent is g(x) = log2 P_X(x) + a(x) - t(x) - lambda*b(x)
- mu*c(x), and I(X;Y|S) = sum_x P_X(x) (a(x) - t(x)).  One iteration costs a
single (X, S*Y) matrix-vector product, which keeps the 16 x 16000-state
quantized Gaussian instance fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import channel, estimator
from .errors import DegenerateUpdate, Infeasible


def _xlog2x(p):
    out = np.zeros_like(p)
    np.log2(p, out=out, where=p > 0)
    return p * out


def conditional_mutual_information(spec, p_x):
    """I(X;Y|S) in bits for the given input pmf."""
    law = channel.marginal_y_given_xs(spec)      # (X, S, Y)
    p_x = np.asarray(p_x, float)
    pys = np.einsum("x,xsy->sy", p_x, law)
    with np.errstate(divide="ignore"):
        log_pys = np.where(pys > 0, np.log2(np.where(pys > 0, pys, 1.0)), 0.0)
        log_law = np.where(law > 0, np.log2(np.where(law > 0, law, 1.0)), 0.0)
    per_x = np.einsum("s,xsy,xsy->x", spec.state_pmf, law, log_law - log_pys[None])
    # x symbols with zero mass can touch pys==0 cells; their contribution is 0
    return float(np.dot(p_x, np.where(p_x > 0, per_x, 0.0)))


def q_update(spec, p_x):
    """Backward channel Q(x|y,s), shape (X, S, Y).

    Rows (s,y) with zero output probability are set uniform; they never
    enter the input update because the corresponding channel weight is 0.
    """
    law = channel.marginal_y_given_xs(spec)
    p_x = np.asarray(p_x, float)
    num = p_x[:, None, None] * law
    den = num.sum(axis=0)
    q = np.where(den > 0, num / np.where(den > 0, den, 1.0),
                 1.0 / law.shape[0])
    return q


def p_update(spec, est, q, mu, lam=0.0):
    """Exponential input update P*(x) proportional to 2**g(x)."""
    law = channel.marginal_y_given_xs(spec)
    with np.errstate(divide="ignore"):
        log_q = np.log2(q)
    weighted = np.einsum("s,xsy->xsy", spec.state_pmf, law)
    with np.errstate(invalid="ignore"):
        terms = np.where(weighted > 0, weighted * log_q, 0.0)
    g = terms.sum(axis=(1, 2)) - lam * np.asarray(spec.cost) - mu * est.cost
    return _pmf_from_exponents(g)


def _pmf_from_exponents(g):
    m = np.max(g)
    if not np.isfinite(m):
        raise DegenerateUpdate("all update exponents are -inf")
    e = np.exp2(g - m)
    return e / e.sum()


@dataclass
class BaConfig:
    mu: float = 0.0
    budget: float = np.inf
    max_outer_iters: int = 10000
    convergence_eps: float = 1e-10
    lambda_step: float = 1.0          # seeds the lambda bracket: hi = max(lam, lambda_step)
    lambda_eps: float = 1e-9          # constraint slack tolerance
    max_dual_iters: int = 100
    initial_pmf: Optional[np.ndarray] = None
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
    """Precomputed tensors shared by all iterations of one solve."""

    def __init__(self, spec):
        law = channel.marginal_y_given_xs(spec)
        nx = law.shape[0]
        self.law_flat = np.ascontiguousarray(law.reshape(nx, -1))
        w = spec.state_pmf[None, :, None] * law
        self.w_flat = np.ascontiguousarray(w.reshape(nx, -1))
        self.a = _xlog2x(law).reshape(nx, -1) @ np.repeat(
            spec.state_pmf, law.shape[2])
        self.b = np.asarray(spec.cost, float)

    def t_of(self, p):
        """t(x) = sum_{s,y} P_S P(y|x,s) log2 P(y|s) at input pmf p."""
        pys = p @ self.law_flat
        with np.errstate(divide="ignore"):
            log_pys = np.where(pys > 0, np.log2(np.where(pys > 0, pys, 1.0)), 0.0)
        return self.w_flat @ log_pys


def _dual_adjusted_pmf(base_g, b, budget, lam0, cfg):
    """Input update under the cost constraint.

    If the unconstrained pmf meets the budget within lambda_eps, lambda is 0
    (complementary slackness).  Otherwise the upper end of a bracket on
    lambda starts at max(lam0, lambda_step) and doubles until E[b] <= budget,
    then max_dual_iters bisection steps shrink the bracket and its upper end
    is returned, so the pmf meets the budget.  E[b] under the exponential
    family is non-increasing in lambda, so bisection is exact.
    """
    p = _pmf_from_exponents(base_g)
    cost = float(p @ b)
    if cost <= budget + cfg.lambda_eps:
        return p, 0.0, cost
    # complementary slackness: the constraint binds, so find the smallest
    # lambda with E[b] <= budget by bisection (E[b] is continuous and
    # monotone non-increasing in lambda)
    hi = max(lam0, cfg.lambda_step)
    for _ in range(200):
        if float(_pmf_from_exponents(base_g - hi * b) @ b) <= budget:
            break
        hi *= 2.0
        if hi > 1e18:
            raise Infeasible("cost budget unattainable on the current support")
    lo = 0.0
    for _ in range(cfg.max_dual_iters):
        mid = 0.5 * (lo + hi)
        if float(_pmf_from_exponents(base_g - mid * b) @ b) <= budget:
            hi = mid
        else:
            lo = mid
    lam = hi
    p = _pmf_from_exponents(base_g - lam * b)
    return p, lam, float(p @ b)


def solve_fixed_mu(spec, config, est=None, work=None):
    """Run the alternating maximization for one penalty value."""
    if est is None:
        est = estimator.build_estimator(spec)
    if work is None:
        work = _BaWork(spec)
    b = work.b
    budget = config.budget
    if budget < b.min():
        raise Infeasible(f"budget {budget} below min cost {b.min()}")
    nx = b.size
    p = (np.full(nx, 1.0 / nx) if config.initial_pmf is None
         else np.asarray(config.initial_pmf, float).copy())
    need_dual = np.isfinite(budget) and b.max() > budget
    lam = 0.0
    trace = [] if config.record_objective else None
    j_prev = -np.inf
    converged = False
    iters = 0
    for k in range(1, config.max_outer_iters + 1):
        iters = k
        t = work.t_of(p)
        per_x = work.a - t
        j_cur = float(p @ np.where(p > 0, per_x, 0.0)) - config.mu * float(p @ est.cost)
        if trace is not None:
            trace.append(j_cur)
        with np.errstate(divide="ignore"):
            log_p = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), -np.inf)
        base_g = log_p + np.where(p > 0, per_x, -np.inf) - config.mu * est.cost
        if need_dual:
            p_new, lam, _ = _dual_adjusted_pmf(base_g, b, budget, lam, config)
        else:
            p_new = _pmf_from_exponents(base_g)
        stationary = np.array_equal(p_new, p)
        p = p_new
        if stationary or (k >= 2 and j_cur - j_prev < config.convergence_eps):
            converged = True
            break
        j_prev = j_cur
    t = work.t_of(p)
    rate = float(p @ np.where(p > 0, work.a - t, 0.0))
    return TradeoffPoint(mu=config.mu, budget=budget, rate=rate,
                         distortion=float(p @ est.cost), cost=float(p @ b),
                         input_pmf=p, iterations=iters, converged=converged,
                         objective_trace=trace)


def sweep_frontier(spec, budget, mu_grid, base_config=None, threads=1):
    """One solve per mu plus the two analytic anchors, sorted by distortion.

    Sequential sweeps warm-start each solve from the previous converged pmf
    (with a uniform-restart fallback); threaded sweeps disable warm starts so
    the result is identical regardless of thread count.

    Warm starts are mixed with a little uniform mass before reuse: the
    alternating update can never repopulate an exactly-zero entry, so a pmf
    that underflowed to a vertex at one mu would otherwise absorb every
    later solve in the chain.
    """
    if base_config is None:
        base_config = BaConfig()
    est = estimator.build_estimator(spec)
    work = _BaWork(spec)
    mus = sorted(float(m) for m in mu_grid)
    if not mus:
        raise ValueError("mu_grid must be nonempty")
    if mus[0] > 0.0:
        mus = [0.0] + mus
    points = []

    # mu -> infinity anchor: the d_min point, evaluated analytically
    dm_val, dm_pmf = estimator.d_min(spec, budget, est=est)
    points.append(TradeoffPoint(
        mu=np.inf, budget=budget,
        rate=conditional_mutual_information(spec, dm_pmf),
        distortion=dm_val, cost=float(dm_pmf @ np.asarray(spec.cost)),
        input_pmf=dm_pmf, iterations=0, converged=True))

    def solve_one(mu, warm_pmf):
        cfg = replace(base_config, mu=mu, budget=budget, initial_pmf=warm_pmf)
        pt = solve_fixed_mu(spec, cfg, est=est, work=work)
        if not pt.converged and warm_pmf is not None:
            cfg = replace(cfg, initial_pmf=None)
            pt = solve_fixed_mu(spec, cfg, est=est, work=work)
        return pt

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            solved = list(pool.map(lambda m: solve_one(m, None), mus))
    else:
        warm = None
        solved = []
        nx = np.asarray(spec.cost).size
        for mu in reversed(mus):          # large mu first: near the d_min end
            pt = solve_one(mu, warm)
            warm = 0.99 * pt.input_pmf + 0.01 / nx
            solved.append(pt)
    points.extend(solved)
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
    dm_val, dm_pmf = estimator.d_min(spec, budget, est=est)
    r_min = conditional_mutual_information(spec, dm_pmf)
    cap = solve_fixed_mu(spec, replace(config, mu=0.0, budget=budget), est=est)
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
    passed: bool
    worst_independence: float
    worst_markov: float
    tol: float
    n_pmfs: int


def factorization_deviations(joint_xsz, psi_table, codomain_size):
    """Deviations of the two factorization identities for T = psi(X,Z).

    Returns (dev_independence, dev_markov):
      (i)  max |P(s,t,x) - P(s,t) P(x)|        ((S,T) independent of X)
      (ii) max |P(s,x,z) P(t) - P(s,t) P(x,z)| (S - T - (X,Z) Markov)
    """
    nx, ns, nz = joint_xsz.shape
    m = np.zeros((nx, ns, codomain_size))      # P(x, s, t)
    for x in range(nx):
        for z in range(nz):
            m[x, :, psi_table[x, z]] += joint_xsz[x, :, z]
    p_x = joint_xsz.sum(axis=(1, 2))
    p_st = m.sum(axis=0)                          # (S, T)
    dev1 = float(np.max(np.abs(m - p_x[:, None, None] * p_st[None])))
    p_t = p_st.sum(axis=0)
    p_xz = joint_xsz.sum(axis=1)                  # (X, Z)
    t_of = psi_table                               # (X, Z)
    lhs = joint_xsz * p_t[t_of][:, None, :]
    rhs = p_st[:, t_of].transpose(1, 0, 2) * p_xz[:, None, :]
    dev2 = float(np.max(np.abs(lhs - rhs)))
    return dev1, dev2


def _trial_pmf_panel(n, seed=0, n_random=20):
    pmfs = [np.full(n, 1.0 / n)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        pmfs.append(e)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        pmfs.append(rng.dirichlet(np.ones(n)))
    return pmfs


def no_tradeoff_check(spec, psi, trial_pmfs=None, tol=1e-9, seed=0):
    """Numerically test the sufficient no-tradeoff conditions for T=psi(X,Z).

    A pass certifies that the estimation cost is constant in P_X on the
    tested panel, i.e. communication and sensing do not trade off.
    """
    law_z = channel.marginal_z_given_xs(spec)
    w = spec.state_pmf[None, :, None] * law_z      # (X, S, Z)
    if trial_pmfs is None:
        trial_pmfs = _trial_pmf_panel(spec.input_size, seed=seed)
    worst1 = worst2 = 0.0
    for p_x in trial_pmfs:
        joint = np.asarray(p_x, float)[:, None, None] * w
        joint = np.ascontiguousarray(joint.transpose(0, 1, 2))
        d1, d2 = factorization_deviations(joint, psi.table, psi.codomain_size)
        worst1 = max(worst1, d1)
        worst2 = max(worst2, d2)
    return NoTradeoffReport(passed=(worst1 <= tol and worst2 <= tol),
                            worst_independence=worst1, worst_markov=worst2,
                            tol=tol, n_pmfs=len(trial_pmfs))
