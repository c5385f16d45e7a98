"""Broadcast-channel region computation.

Covers: the physically-degraded region (auxiliary-grid sweep of the
superposition bounds), the general outer bound, the product-region
(no-tradeoff) certification, and the closed-form regions of the binary and
Dueck broadcast examples, including the upper concave hull the Dueck inner
bound requires.

Region samples are record arrays (see `region_samples`): one row per
sample, with columns r0, r1, r2, d1, d2 and the parameters that produced it.
Receiver k's rates, estimator and no-tradeoff check are the single-user
ones on its view `channel.receiver_spec(bc, k)`; every rate comes from
`solver._BaWork.rates`, and both regions take their bounds on an auxiliary U
from one kernel, `_superposition`, through the chain rule over U - X - Y,
I(U;Y|S) = I(X;Y|S) - sum_u P_U(u) I(X;Y|S, U=u).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel, estimator, solver


def binary_entropy(p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    for v in (p, 1.0 - p):
        out -= np.where((v > 0) & (v < 1), v * np.log2(np.where(v > 0, v, 1.0)), 0.0)
    return out if out.ndim else float(out)


def region_samples(r0, r1, r2, d1, d2, **params):
    """Region samples as an np.recarray with fields r0, r1, r2, d1, d2 and
    then the parameter columns in keyword order.

    Every argument is a per-sample column: a scalar (repeated on every row),
    a 1-D array of N values (numbers or strings) or an (N, k) array (a
    vector per sample, such as a pmf).
    """
    cols = {name: np.asarray(v) for name, v in
            dict(r0=r0, r1=r1, r2=r2, d1=d1, d2=d2, **params).items()}
    n = max(len(v) for v in cols.values() if v.ndim)
    out = np.recarray(n, dtype=[(name, v.dtype, v.shape[1:])
                                for name, v in cols.items()])
    for name, v in cols.items():
        out[name] = v
    return out


# ---------------------------------------------------------------------------
# superposition rates
# ---------------------------------------------------------------------------

_N_RANDOM_AUX = 10     # seeded random auxiliary channels of the outer bound


def _superposition(joint, works, rates_x):
    """Per work, (I(X;Y|S,U), I(U;Y|S)) of each joint pmf P(x, u) in the
    (N, X, U) batch, given rates_x = I(X;Y|S) at its X marginals; X|U=u is
    uniform where P_U(u) = 0.  I(U;Y|S) = I(X;Y|S) - I(X;Y|S,U) over the
    Markov chain U - X - Y is clamped at 0: it is nonnegative by concavity,
    but where it is 0 its rounding falls an ulp either side."""
    n, nx, nu = joint.shape
    p_u = joint.sum(axis=1)                                  # (N, U)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(p_u[:, None, :] > 0,
                        joint / np.where(p_u[:, None, :] > 0, p_u[:, None, :], 1.0),
                        1.0 / nx).transpose(0, 2, 1).reshape(-1, nx)   # rows P(x|u)
    out = []
    for work, r in zip(works, rates_x):
        given_u = np.einsum("nu,nu->n", p_u, work.rates(cond).reshape(n, nu))
        out.append((given_u, np.maximum(r - given_u, 0.0)))
    return out


# ---------------------------------------------------------------------------
# physically degraded test and region
# ---------------------------------------------------------------------------

def is_physically_degraded(bc):
    """Test X - (S1,Y1) - (S2,Y2).

    Returns (verdict, worst_violation, witness); the verdict holds when the
    worst violation is at most solver._CHECK_TOL.  The conditional
    P(s2,y2 | x, s1, y1) must be constant in x wherever defined; it is a
    property of the channel alone, since the factor p(x) cancels.
    """
    joint = np.einsum("ab,abxcd->xacbd", bc.joint_state_pmf,
                      bc.law.sum(axis=5))                   # (X,S1,Y1,S2,Y2)
    marg = joint.sum(axis=(3, 4))                           # (X,S1,Y1)
    defined = marg > 0
    cond = joint / np.where(defined, marg, 1.0)[:, :, :, None, None]
    mask = np.broadcast_to(defined[:, :, :, None, None], cond.shape)
    hi = np.where(mask, cond, -np.inf).max(axis=0)
    lo = np.where(mask, cond, np.inf).min(axis=0)
    dev = np.maximum(hi - lo, 0.0)          # cells defined for <= 1 input: 0
    worst = float(dev.max())
    witness = (tuple(int(i) for i in np.unravel_index(np.argmax(dev), dev.shape))
               if worst > 0 else None)
    return worst <= solver._CHECK_TOL, worst, witness


def degraded_region(bc, u_size=None, resolution=32):
    """Sample the physically-degraded region by sweeping P_UX on a simplex grid.

    |U| is u_size, |X| + 1 if None.  Per sample emits r1 = I(X;Y1|U,S1),
    r2 = I(U;Y2|S2) (the R0+R2 cap) and the two expected distortions; r0 is
    reported as 0.  The p_ux column holds the flattened (U, X) pmf.
    """
    nx = bc.input_size
    if u_size is None:
        u_size = nx + 1
    grid = channel.simplex_lattice(u_size * nx, resolution)
    p_ux = grid.reshape(-1, u_size, nx)           # (N, U, X)

    views = [channel.receiver_spec(bc, k) for k in (1, 2)]
    works = [solver._BaWork(v.law_y, v.state_pmf) for v in views]
    est1, est2 = (estimator.build_estimator(v) for v in views)
    p_x = p_ux.sum(axis=1)                        # (N, X)
    d1 = p_x @ est1.cost
    d2 = p_x @ est2.cost
    (r1, _), (_, r2) = _superposition(p_ux.transpose(0, 2, 1), works,
                                      [work.rates(p_x) for work in works])
    return region_samples(0.0, r1, r2, d1, d2, p_ux=grid)


def outer_bound_samples(bc, resolution=32, seed=0):
    """Grid evaluation of the general outer bound, as read from the paper
    (PAPER.md holds only its abstract).

    Per input pmf P_X on the simplex lattice and auxiliary channel P(U|X),
    one for both receivers with |U| = |X| + 1: r0 = I(X;Y1Y2|S1S2) caps
    R0+R1+R2, rk = I(U;Yk|Sk) caps R0+Rk and dk is receiver k's estimator
    distortion; there are no mixed Nair-El Gamal-type terms.  The rows run
    through the lattice once per channel of a panel, named in the aux column:
    "identity" (U = X), "constant" and _N_RANDOM_AUX Dirichlet rows
    "random<j>" drawn from `seed`.  By data processing over U - X - Y the
    identity row dominates the others at the same P_X; the panel stays while
    the benchmark pins the row count.
    """
    nx = bc.input_size
    u_size = nx + 1
    grid = channel.simplex_lattice(nx, resolution)
    s1, s2, _, y1, y2, _ = bc.law.shape           # P(y1 y2 | x, s1 s2), flat pairs
    pair_law = bc.law.sum(axis=5).transpose(2, 0, 1, 3, 4).reshape(nx, s1 * s2, y1 * y2)
    sum_rate = solver._BaWork(pair_law, bc.joint_state_pmf.ravel()).rates(grid)
    views = [channel.receiver_spec(bc, k) for k in (1, 2)]
    works = [solver._BaWork(v.law_y, v.state_pmf) for v in views]
    est1, est2 = (estimator.build_estimator(v) for v in views)
    d1 = grid @ est1.cost
    d2 = grid @ est2.cost
    rates_x = [work.rates(grid) for work in works]

    ident = np.zeros((nx, u_size))
    ident[np.arange(nx), np.arange(nx)] = 1.0
    const = np.zeros((nx, u_size))
    const[:, 0] = 1.0
    rng = np.random.default_rng(seed)
    aux_panel = [ident, const] + [rng.dirichlet(np.ones(u_size), size=nx)
                                  for _ in range(_N_RANDOM_AUX)]
    names = ["identity", "constant"] + [f"random{j}" for j in range(_N_RANDOM_AUX)]

    # one channel at a time: one (12 N, X, U) batch doubles the peak memory
    caps = [[aux_rate for _, aux_rate in
             _superposition(grid[:, :, None] * aux[None, :, :], works, rates_x)]
            for aux in aux_panel]
    b1, b2 = (np.concatenate(c) for c in zip(*caps))
    n_aux = len(aux_panel)
    return region_samples(np.tile(sum_rate, n_aux), b1, b2,
                          np.tile(d1, n_aux), np.tile(d2, n_aux),
                          p_x=np.tile(grid, (n_aux, 1)),
                          aux=np.repeat(names, grid.shape[0]))


# ---------------------------------------------------------------------------
# product-region (no-tradeoff) certification
# ---------------------------------------------------------------------------

@dataclass
class ProductRegionReport:
    passed: bool
    worst_independence: tuple
    worst_markov: tuple
    tol: float


def product_region_check(bc, psi1, psi2):
    """Certify CD = C x D exactly: the single-user no-tradeoff check of
    T_k = psi_k(X,Z) on each receiver's view; deviations are (receiver 1, 2)."""
    r1, r2 = (solver.no_tradeoff_check(channel.receiver_spec(bc, k), psi)
              for k, psi in ((1, psi1), (2, psi2)))
    return ProductRegionReport(
        passed=r1.passed and r2.passed,
        worst_independence=(r1.worst_independence, r2.worst_independence),
        worst_markov=(r1.worst_markov, r2.worst_markov), tol=r1.tol)


def erasure_bc_distortion_region(p_e1s1, p_e2s2):
    """Distortion floors (D1, D2) for the erasure BC with noisy feedback,
    given the independent pair pmfs P(e_k, s_k) as 2x2 arrays [e][s]."""
    p1 = np.asarray(p_e1s1, float)
    p2 = np.asarray(p_e2s2, float)
    return float(p1[1, 0]), float(p2[1, 0])


# ---------------------------------------------------------------------------
# closed-form binary BC regions
# ---------------------------------------------------------------------------

def _default_grid(n=33):
    return np.linspace(0.0, 1.0, n)


def _binary_bc_samples(q, gamma, p_grid, r_grid, distortions):
    """Rows (p, r) over p_grid x r_grid, p-major, of the rate caps
    q h(p) r and gamma q h(p) (1 - r); distortions(p) gives (d1, d2)."""
    p_grid = _default_grid() if p_grid is None else np.asarray(p_grid, float)
    r_grid = _default_grid() if r_grid is None else np.asarray(r_grid, float)
    p, r = (a.ravel() for a in np.meshgrid(p_grid, r_grid, indexing="ij"))
    hb = binary_entropy(p)
    d1, d2 = distortions(p)
    return region_samples(0.0, q * hb * r, gamma * q * hb * (1 - r), d1, d2,
                          p=p, r=r)


def binary_bc_region(q, gamma, p_grid=None, r_grid=None):
    """Boundary samples of the degraded binary BC region: per (p, r) emits
    the caps R0+R1, R0+R2 and the distortions."""
    return _binary_bc_samples(
        q, gamma, p_grid, r_grid,
        lambda p: (p * min(q, 1 - q), p * min(gamma * q, 1 - gamma * q)))


def flipped_bc_region(q, gamma, p_grid=None, r_grid=None):
    """Boundary samples of the flipped-input binary BC region (r1 is the R1
    cap, r2 the R0+R2 cap)."""
    return _binary_bc_samples(
        q, gamma, p_grid, r_grid,
        lambda p: (p * min(q * (1 - gamma), 1 - q),
                   (1 - p) * q * min(gamma, 1 - gamma)))


# ---------------------------------------------------------------------------
# Dueck broadcast example (closed forms)
# ---------------------------------------------------------------------------

def dueck_distortion(q, t):
    """Expected per-receiver distortion of the optimal estimators at input
    antipodality t = P(X1 != X2) (a number or an array of them)."""
    return (0.5 * t * q * (min(q, 1 - q) + (1 - q))
            + 0.5 * (1 - t) * min(q, (1 - q) * (2 - q)))


def dueck_dmin(q):
    """Minimum per-receiver distortion; attained at t=1 for q in [1/2, 2/3]
    and t=0 for q >= 2/3 (constant in t below 1/2)."""
    return min(dueck_distortion(q, 0.0), dueck_distortion(q, 1.0))


def dueck_outer(q, t_grid=None):
    """Outer-bound curve samples: per t the sum-rate cap and distortions."""
    t = _default_grid() if t_grid is None else np.asarray(t_grid, float)
    d = dueck_distortion(q, t)
    return region_samples(1.0 + q * q * binary_entropy(t), 1.0, 1.0, d, d, t=t)


def dueck_inner(q, t_grid=None):
    """Inner-bound curve samples plus their upper concave hull in
    (distortion, sum-rate), including the rate-1 point at D_min that the
    hull construction mixes in."""
    t = _default_grid() if t_grid is None else np.asarray(t_grid, float)
    d = dueck_distortion(q, t)
    samples = region_samples(1.0 + q * binary_entropy(t) - q * (1 - q), 1.0, 1.0,
                             d, d, t=t)
    pts = list(zip(samples.d1.tolist(), samples.r0.tolist()))
    pts.append((dueck_dmin(q), 1.0))
    return samples, upper_concave_hull(pts)


# ---------------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------------

def upper_concave_hull(points):
    """Upper concave hull of 2-D (x, y) points by monotone chain; returns
    hull vertices sorted by x."""
    best = {}
    for x, y in points:
        x, y = float(x), float(y)
        if x not in best or y > best[x]:
            best[x] = y
    pts = sorted(best.items())
    if len(pts) <= 2:
        return pts
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1)
            if cross >= 0:          # middle point is not above the chord
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def envelope_value(points, d_query):
    """Best rate at distortion <= d_query on the piecewise-linear envelope of
    (d, rate) points; flat extension beyond the last vertex (larger
    distortion budgets cannot hurt)."""
    pts = upper_concave_hull(points)
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    # a vertex within 1e-12 of the budget counts as reached: solved points
    # and the D_min anchor can differ in the last bits of their distortion,
    # and the brute-force oracle gives its D cap the same slack
    reached = xs <= d_query + 1e-12
    if not reached.any():
        return -np.inf
    # the envelope is the running max of the hull interpolant
    return max(float(np.interp(d_query, xs, ys)), float(ys[reached].max()))
