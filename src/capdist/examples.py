"""Closed-form example evaluators and paper-faithful spec builders."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import estimator, solver
from .bcregions import binary_entropy
from .channel import BandedLaw, QuadraticDistortion, SdmbcSpec, SdmcSpec
from .errors import MemoryGuard

HAMMING2 = np.array([[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# binary multiplicative channel (single user)
# ---------------------------------------------------------------------------

def binary_multiplicative_spec(q=0.4):
    """Y = S*X with S ~ Bernoulli(q), perfect feedback Z = Y, Hamming
    distortion, zero input cost."""
    law = np.zeros((2, 2, 2))
    for x in range(2):
        for s in range(2):
            law[x, s, s * x] = 1.0
    return SdmcSpec(state_pmf=np.array([1.0 - q, q]), law_y=law, law_z=law,
                    distortion=HAMMING2.copy())


def binary_multiplicative_cd(q, distortion):
    """Closed-form tradeoff C(D) = q * H_b(D / min{q, 1-q}), capped at the
    capacity once D reaches D_max."""
    dmax_scale = min(q, 1.0 - q)
    if dmax_scale == 0.0:                  # a known state: D_max = 0
        return q
    p = min(distortion / dmax_scale, 0.5)
    return q * binary_entropy(p)


# ---------------------------------------------------------------------------
# state-dependent erasure channel (single user, no tradeoff)
# ---------------------------------------------------------------------------

def erasure_spec(p_s=0.5):
    """S ~ Bernoulli(p_s); Y = X when S=0 and '?' (index 2) when S=1;
    perfect feedback Z = Y; Hamming distortion on the state."""
    law = np.zeros((2, 2, 3))
    for x in range(2):
        law[x, 0, x] = 1.0
        law[x, 1, 2] = 1.0
    return SdmcSpec(state_pmf=np.array([1.0 - p_s, p_s]), law_y=law, law_z=law,
                    distortion=HAMMING2.copy())


# ---------------------------------------------------------------------------
# binary broadcast examples
# ---------------------------------------------------------------------------

def _binary_bc_spec(q, gamma, flip):
    """Y1 = S1 X and Y2 = S2 (X xor flip), output feedback Z = (Y1, Y2) with
    z = 2*y1 + y2, S1 ~ Bernoulli(q) and S2 = S1 B, B ~ Bernoulli(gamma)."""
    law = np.zeros((2, 2, 2, 2, 2, 4))
    for s1 in range(2):
        for s2 in range(2):
            for x in range(2):
                y1, y2 = s1 * x, s2 * (x ^ flip)
                law[s1, s2, x, y1, y2, 2 * y1 + y2] = 1.0
    return SdmbcSpec(joint_state_pmf=np.array([[1.0 - q, 0.0],
                                               [q * (1.0 - gamma), q * gamma]]),
                     law=law, distortion_1=HAMMING2.copy(), distortion_2=HAMMING2.copy())


def binary_bc_spec(q=0.6, gamma=0.5):
    """Physically degraded binary BC: Y_k = S_k X, output feedback
    Z = (Y1, Y2) with z = 2*y1 + y2."""
    return _binary_bc_spec(q, gamma, flip=0)


def flipped_bc_spec(q=0.6, gamma=0.5):
    """Binary BC with flipping input: Y1 = S1 X, Y2 = S2 (1-X)."""
    return _binary_bc_spec(q, gamma, flip=1)


# ---------------------------------------------------------------------------
# erasure BC with noisy feedback
# ---------------------------------------------------------------------------

def erasure_bc_spec(p_e1s1, p_e2s2):
    """Erasure BC: Y_k = X when S_k=0, '?' when S_k=1; feedback component
    Z_k = Y_k when E_k=0, '?' when E_k=1.

    The erasure flags E_k are part of the channel randomness; to keep the
    model memoryless with i.i.d. states we enlarge receiver k's state to the
    pair (e_k, s_k), indexed 2*e + s.  Distortion depends only on the s
    component.  The pair pmfs must be independent across receivers (the
    product-form assumption of the closed-form distortion region).
    """
    p1 = np.asarray(p_e1s1, float)
    p2 = np.asarray(p_e2s2, float)
    joint = np.outer(p1.ravel(), p2.ravel())       # index 2*e + s each
    law = np.zeros((4, 4, 2, 3, 3, 9))
    for st1 in range(4):
        e1, s1 = divmod(st1, 2)
        for st2 in range(4):
            e2, s2 = divmod(st2, 2)
            for x in range(2):
                y1 = x if s1 == 0 else 2
                y2 = x if s2 == 0 else 2
                z1 = y1 if e1 == 0 else 2
                z2 = y2 if e2 == 0 else 2
                law[st1, st2, x, y1, y2, 3 * z1 + z2] = 1.0
    d = np.zeros((4, 2))
    for st in range(4):
        s = st % 2
        d[st, :] = [s != 0, s != 1]
    return SdmbcSpec(joint_state_pmf=joint, law=law,
                     distortion_1=d.copy(), distortion_2=d.copy())


# ---------------------------------------------------------------------------
# Dueck broadcast example
# ---------------------------------------------------------------------------

def dueck_bc_spec(q=0.75):
    """State-dependent Dueck BC.

    Input x = 4*x0 + 2*x1 + x2; states S_k iid Bernoulli(q); outputs
    Y_k = (x0, y_k', s1, s2) indexed 8*x0 + 4*y_k' + 2*s1 + s2 with
    y_k' = s_k (x_k xor N), N ~ Bernoulli(1/2); feedback z = 2*y1' + y2'.
    """
    law = np.zeros((2, 2, 8, 16, 16, 4))
    for s1 in range(2):
        for s2 in range(2):
            for x in range(8):
                x0, x1, x2 = (x >> 2) & 1, (x >> 1) & 1, x & 1
                for n in range(2):
                    y1p = s1 * (x1 ^ n)
                    y2p = s2 * (x2 ^ n)
                    i1 = 8 * x0 + 4 * y1p + 2 * s1 + s2
                    i2 = 8 * x0 + 4 * y2p + 2 * s1 + s2
                    law[s1, s2, x, i1, i2, 2 * y1p + y2p] += 0.5
    pk = np.array([1.0 - q, q])
    return SdmbcSpec(joint_state_pmf=np.outer(pk, pk), law=law,
                     distortion_1=HAMMING2.copy(), distortion_2=HAMMING2.copy())


def dueck_reduction_spec(q=0.75, receiver=1):
    """Single-user reduction of the Dueck BC used by the oracles.

    The common bit x0 is dropped (it never affects sensing): input
    x = 2*x1 + x2, state s = 2*s1 + s2, output = feedback = 2*y1' + y2',
    Hamming distortion on receiver `receiver`'s state bit (1 or 2).
    """
    if receiver not in (1, 2):
        raise ValueError(f"receiver must be 1 or 2, not {receiver!r}")
    law = np.zeros((4, 4, 4))
    for s in range(4):
        s1, s2 = divmod(s, 2)
        for x in range(4):
            x1, x2 = divmod(x, 2)
            for n in range(2):
                y = 2 * (s1 * (x1 ^ n)) + (s2 * (x2 ^ n))
                law[x, s, y] += 0.5
    pk = np.array([1.0 - q, q])
    state_pmf = np.outer(pk, pk).ravel()
    d = np.zeros((4, 2))
    for s in range(4):
        bit = (s >> 1) & 1 if receiver == 1 else s & 1
        d[s, :] = [bit != 0, bit != 1]
    return SdmcSpec(state_pmf=state_pmf, law_y=law, law_z=law, distortion=d)


# ---------------------------------------------------------------------------
# quantized Rayleigh-fading Gaussian channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianQuantConfig:
    pam_points: int = 16
    noise_points: int = 50
    state_points: int = 8000           # cells of the chi-square quantizer
    power: float = 10.0
    feedback_variance: float = 1.0
    noise_halfwidth_sigmas: float = 6.0
    state_tail_mass: float = 1e-6
    output_spacing_factor: float = 2.0  # output lattice step, in noise steps

    def __post_init__(self):
        if self.pam_points < 2 or self.noise_points < 2 or self.state_points < 2:
            raise ValueError("all point counts must be >= 2")
        if self.power <= 0 or self.feedback_variance < 0:
            raise ValueError("need power > 0 and feedback variance >= 0")
        if self.output_spacing_factor <= 0:
            raise ValueError("output_spacing_factor must be positive")
        if not 0.0 < self.state_tail_mass < 1.0:
            raise ValueError("state_tail_mass must lie in (0, 1)")


def _normal_cdf(x):
    """Standard normal cdf at every entry of x: erfc(-x/sqrt 2) / 2."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.ravel(x).tolist()])


def _chi2_1_cdf(x):
    """Chi-square(1) cdf at every entry of x >= 0: erf(sqrt(x/2))."""
    return np.array([math.erf(math.sqrt(v / 2.0)) for v in np.ravel(x).tolist()])


def _chi2_1_isf(p):
    """Chi-square(1) quantile of upper tail p in (0, 1): bisection down to
    two adjacent floats, then the one whose erfc(sqrt(x/2)) is nearer p."""
    def tail(x):
        return math.erfc(math.sqrt(x / 2.0))

    lo, hi = 0.0, 1.0
    while tail(hi) > p:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := lo + (hi - lo) / 2.0) < hi:
        if tail(mid) > p:
            lo = mid
        else:
            hi = mid
    return lo if abs(tail(lo) - p) < abs(tail(hi) - p) else hi


def _gaussian_atoms(sigma, n_points, halfwidth):
    """Equal-spaced quantization of a centered normal; tail mass folded into
    the edge atoms so the pmf is exactly normalized."""
    vals = np.linspace(-halfwidth * sigma, halfwidth * sigma, n_points)
    mids = (vals[:-1] + vals[1:]) / 2.0
    cdf = _normal_cdf(mids / sigma)
    probs = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    return vals, probs


def _scatter(mean_pos, kernel_off, kernel_pr):
    """The law P(y|x,s) of y = snap(mean_pos[x,s] + kernel atom) over the
    output lattice points from the least reached one to the largest, as a
    BandedLaw.  The atoms are eighths q/8, and snap, the nearest integer with
    half-integer ties to the lower one, is taken of the exact sum, in
    integers: snap(pos + q/8) = (c + q + 3) // 8 with c = ceil(8 pos).  (A
    float sum could round across a cell edge within an ulp of it.)  Row (x,s)
    reaches the cells from snap(pos + the least atom) to snap(pos + the
    largest); W is the widest such span, and each window starts at the row's
    first cell, or W cells before the last output where that would run past
    it.  So a row's window depends only on c mod 8 and how far it was moved
    back: one bincount per such key adds each cell's masses in kernel order
    from 0.0."""
    q = np.rint(kernel_off * 8.0).astype(np.int64)
    c = np.ceil(mean_pos * 8.0).astype(np.int64)
    first, last = (c + q.min() + 3) // 8, (c + q.max() + 3) // 8
    lo = int(first.min())
    ny = int(last.max()) - lo + 1
    width = int((last - first).max()) + 1
    offset = np.minimum(first - lo, ny - width)
    key = 8 * (first - lo - offset) + c % 8                 # the shift back, c mod 8
    present = np.bincount(key.ravel(), minlength=8 * width) > 0
    windows = [np.bincount((k % 8 + q + 3) // 8 - (k % 8 + q.min() + 3) // 8 + k // 8,
                           kernel_pr, minlength=width) for k in np.flatnonzero(present)]
    return BandedLaw(offset, np.cumsum(present)[key] - 1, windows, ny)


def gaussian_quantized_spec(cfg=None):
    """Quantized fading channel Y = S X + N, Z = Y + N_fb.

    Input: M-ary PAM at spacing 2*kappa, kappa = sqrt(3P/(M^2-1)); cost
    b(x) = x^2 with budget P.  State: S^2 is chi-square(1); it is gridded
    uniformly on [0, s2_max] (tail mass < cfg.state_tail_mass folded into
    the last cell), representatives are midpoint square roots, and each
    magnitude cell is split into a +/- sign pair of equal mass so that the
    quadratic distortion d(s, shat) = (s - shat)^2 on the real state is
    well-posed.  Both noises are quantized on equal-spaced +/-6 sigma grids;
    outputs are snapped to the lattice of the channel-noise grid.  The two
    marginal laws are built directly, each as a BandedLaw: every (x, s) row
    is one window of outputs (`_scatter`); the joint is never formed, nor
    a dense law.  Each law is built and kept as its few distinct windows,
    one bincount each, adding every cell's noise-atom masses in kernel order
    as adding the atoms one at a time does.
    """
    if cfg is None:
        cfg = GaussianQuantConfig()
    m = cfg.pam_points
    kappa = np.sqrt(3.0 * cfg.power / (m * m - 1.0))
    x_vals = (2.0 * np.arange(1, m + 1) - 1.0 - m) * kappa

    s2_max = _chi2_1_isf(cfg.state_tail_mass)
    edges = np.linspace(0.0, s2_max, cfg.state_points + 1)
    cdf = _chi2_1_cdf(edges)
    cell = np.diff(cdf)
    cell[-1] += 1.0 - cdf[-1]
    reps = np.sqrt((edges[:-1] + edges[1:]) / 2.0)
    s_vals = np.concatenate((-reps[::-1], reps))
    s_probs = np.concatenate((cell[::-1], cell)) / 2.0

    n_vals, n_probs = _gaussian_atoms(1.0, cfg.noise_points,
                                      cfg.noise_halfwidth_sigmas)
    delta = (n_vals[1] - n_vals[0]) * cfg.output_spacing_factor

    # The signal mean s*x is kept fractional (in output-lattice units) and each
    # noise atom is snapped jointly with it; snapping mean and kernel
    # separately aliases the two lattices and corrupts the law.
    mean_pos = np.outer(x_vals, s_vals) / delta             # (X, S), fractional

    def bin_atoms(vals, probs):
        # merge atoms on a lattice 8x finer than the output step: keeps the
        # atom count bounded without re-introducing aliasing
        off = np.round(vals / delta * 8.0) / 8.0
        uniq, inv = np.unique(off, return_inverse=True)
        return uniq, np.bincount(inv, weights=probs)

    ky, py = bin_atoms(n_vals, n_probs)
    entries_y = m * s_vals.size * (np.ptp(mean_pos) + np.ptp(ky) + 3)
    if cfg.feedback_variance > 0.0:
        fb_vals, fb_probs = _gaussian_atoms(np.sqrt(cfg.feedback_variance),
                                            cfg.noise_points,
                                            cfg.noise_halfwidth_sigmas)
        combo = (n_vals[:, None] + fb_vals[None, :]).ravel()
        combo_pr = np.outer(n_probs, fb_probs).ravel()
        kz, pz = bin_atoms(combo, combo_pr)
    else:
        kz, pz = ky, py
    entries_z = m * s_vals.size * (np.ptp(mean_pos) + np.ptp(kz) + 3)
    if entries_y + entries_z > 10**8:
        raise MemoryGuard(
            f"{int(entries_y + entries_z)} law entries exceed the 1e8 budget")

    law_y = _scatter(mean_pos, ky, py)
    law_z = law_y if (kz is ky) else _scatter(mean_pos, kz, pz)
    return SdmcSpec(state_pmf=s_probs, law_y=law_y, law_z=law_z,
                    distortion=QuadraticDistortion(state_values=s_vals,
                                                   estimate_values=s_vals),
                    cost=x_vals ** 2,
                    labels={"x_values": x_vals.tolist()})


_TWO_PAM_NODES = (400, 151)   # Gauss-Legendre nodes over |S| in [0, 10], Gauss-Hermite over the noise


@functools.cache
def _two_pam_rule(fading_nodes, noise_nodes):
    """Product rule for E f(|S|, U), S and U independent standard normals:
    magnitude nodes s on [0, 10] with weights 2 phi(s) ds (the tail beyond
    10 holds under 1e-22), noise nodes u with weights that sum to 1."""
    s, ws = np.polynomial.legendre.leggauss(fading_nodes)
    s = 5.0 * (s + 1.0)
    ws = 10.0 * ws * np.exp(-s ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    u, wu = np.polynomial.hermite_e.hermegauss(noise_nodes)
    return s, ws, u, wu / np.sqrt(2.0 * np.pi)


def gaussian_two_pam_analytic(amplitude, sigma_fb2=1.0):
    """Continuous-model (rate, distortion) of the antipodal input {-a, +a}:
    rate by integrating the BPSK mutual information over the fading state,
    distortion from the Gaussian MMSE closed form."""
    s, ws, u, wu = _two_pam_rule(*_TWO_PAM_NODES)
    snr = (s * s * amplitude ** 2)[:, None]
    # I_BPSK(snr) = 1 - E_U log2(1 + exp(-2 snr - 2 sqrt(snr) U)), U ~ N(0,1)
    arg = -2.0 * snr - 2.0 * np.sqrt(snr) * u
    i_bpsk = 1.0 - (np.log1p(np.exp(np.minimum(arg, 700.0))) @ wu) / np.log(2.0)
    dist = (1.0 + sigma_fb2) / (1.0 + amplitude ** 2 + sigma_fb2)
    return float(ws @ i_bpsk), float(dist)


def gaussian_two_pam_point(spec, budget):
    """Best antipodal two-point input {-v, +v} within the cost budget: the
    feasible pair of least expected distortion (the first, on a tie).

    Returns (rate, distortion, pmf).
    """
    m = spec.input_size
    i = np.arange(m // 2)
    pairs = np.zeros((i.size, m))
    pairs[i, i] = pairs[i, m - 1 - i] = 0.5
    est = estimator.build_estimator(spec)
    dist = np.where(spec.cost[m - 1 - i] > budget, np.inf, pairs @ est.cost)
    k = int(np.argmin(dist))
    if dist[k] == np.inf:
        raise ValueError("no antipodal pair satisfies the budget")
    return (solver.conditional_mutual_information(spec, pairs[k]), float(dist[k]),
            pairs[k])
